"""Seeded generators for the certification corpora.

Maps are assembled from canonical pieces (disk and sphere inclusions,
direct sums, cyclic quotients with small relation entries) and then
conjugated by random unimodular changes of basis, so ground-truth class
membership is known by construction wherever a suite needs it.  Each
case is written once from what was drawn: sums of pieces go straight
into per-degree presentations, and a map into or out of a twisted sum
is read off the change of basis itself.
"""

from __future__ import annotations

import random

from ..chains.build import direct_sum_complex
from ..chains.complexes import ChainComplex, ChainMap
from ..chains.homcx import ChainMapsSpace
from ..exact.matrix import Matrix
from ..exact.modules import ModuleMap, PresentedModule
from ..exact.rings import RingSpec

# a drawn piece (n, d, k) of a direct sum; see `_sum_of_pieces`
Piece = tuple[int, int | None, int | None]


def unimodular(ring: RingSpec, n: int, rng: random.Random,
               ops: int = 3) -> tuple[Matrix, Matrix]:
    """A random change of basis U together with its exact inverse.

    U U^-1 = I holds by construction, so no solve is needed for the
    inverse: each elementary operation E (add c times row j to row i,
    swap rows i and j, negate row i) is applied to U on the left and its
    inverse E^-1 to U^-1 on the right, as the matching column operation.
    After E_1, ..., E_k, U = E_k ... E_1 and U^-1 = E_1^-1 ... E_k^-1,
    the inverses in reverse order.
    """
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    Uinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if n <= 1:
        return Matrix(ring, n, n, U), Matrix(ring, n, n, Uinv)
    for _ in range(ops):
        kind = rng.choice(("add", "swap", "flip"))
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == "add" and i != j:
            c = rng.choice((-2, -1, 1, 2))
            for col in range(n):
                U[i][col] += c * U[j][col]
            for row in range(n):
                Uinv[row][j] -= c * Uinv[row][i]
        elif kind == "swap" and i != j:
            U[i], U[j] = U[j], U[i]
            for row in range(n):
                Uinv[row][i], Uinv[row][j] = Uinv[row][j], Uinv[row][i]
        elif kind == "flip":
            for col in range(n):
                U[i][col] = -U[i][col]
            for row in range(n):
                Uinv[row][i] = -Uinv[row][i]
    return Matrix(ring, n, n, U), Matrix(ring, n, n, Uinv)


def random_complex(ring: RingSpec, rng: random.Random, *, max_top: int = 2,
                   max_rank: int = 3, allow_torsion: bool = True
                   ) -> ChainComplex:
    """Direct sum of canonical pieces, basis-twisted.

    The pieces are S^n, D^n, R/(d) in degree n, and R --k--> R in degrees
    n, n-1; see `_sum_of_pieces` for how they are written.
    """
    pieces: list[Piece] = []
    budget = rng.randint(1, max_rank)
    while budget > 0:
        kind = rng.randrange(4 if allow_torsion else 2)
        n = rng.randint(0, max_top)
        if kind == 1 and n >= 1 and budget >= 2:
            pieces.append((n, None, 1))
            budget -= 2
        elif kind == 2 and allow_torsion:
            pieces.append((n, rng.choice((2, 3, 4)), None))
            budget -= 1
        elif kind == 3 and allow_torsion and n >= 1 and budget >= 2:
            pieces.append((n, None, rng.choice((2, 3))))
            budget -= 2
        else:
            pieces.append((n, None, None))
            budget -= 1
    return _twist(_sum_of_pieces(ring, pieces), rng)[0]


def _sum_of_pieces(ring: RingSpec, pieces: list[Piece]) -> ChainComplex:
    """The direct sum of the pieces (n, d, k), written degree by degree.

    A piece puts one generator in degree n, with the relation d when d is
    not None (R/(d)).  When k is not None it also puts one generator in
    degree n - 1, which d_n hits k times (k = 1 is the disk D^n).  Each
    degree lists its generators and relation columns in the pieces'
    order, so the result is `direct_sum_complex` of the pieces, block for
    block, and d o d = 0 because no generator is both hit and hitting.
    """
    top = max(n for n, _, _ in pieces)
    gens = [0] * (top + 1)
    rels: list[list[tuple[int, int]]] = [[] for _ in range(top + 1)]
    arrows: list[list[tuple[int, int, int]]] = [[] for _ in range(top + 1)]
    for n, d, k in pieces:
        if d is not None:
            rels[n].append((gens[n], d))
        if k is not None:
            arrows[n].append((gens[n - 1], gens[n], k))
            gens[n - 1] += 1
        gens[n] += 1
    mods = []
    for g, cols in zip(gens, rels):
        entries = [[0] * len(cols) for _ in range(g)]
        for col, (row, d) in enumerate(cols):
            entries[row][col] = d
        mods.append(PresentedModule(ring, g,
                                    Matrix(ring, g, len(cols), entries)))
    diffs = []
    for n in range(1, top + 1):
        entries = [[0] * gens[n] for _ in range(gens[n - 1])]
        for row, col, k in arrows[n]:
            entries[row][col] = k
        diffs.append(ModuleMap(mods[n], mods[n - 1],
                               Matrix(ring, gens[n - 1], gens[n], entries),
                               check=False))
    return ChainComplex(ring, mods, diffs, check=False)


def _twist(C: ChainComplex, rng: random.Random
           ) -> tuple[ChainComplex, list[Matrix], list[Matrix]]:
    """C conjugated by U_n in each degree, with the U_n and the U_n^-1.

    The result is right by construction, since U_n^-1 U_n = I exactly:
    C'_n is presented by U_n P_n, its differential U_{n-1} d_n U_n^-1
    carries U_n P_n into U_{n-1} P_{n-1}, d' o d' = U d d U^-1 vanishes
    because d d does, and d' U_n = U_{n-1} d_n holds on the nose.
    """
    ring = C.ring
    us, uinvs, mods = [], [], []
    for M in C.mods:
        U, Uinv = unimodular(ring, M.generators, rng)
        us.append(U)
        uinvs.append(Uinv)
        mods.append(PresentedModule(ring, M.generators, U @ M.relations))
    diffs = [ModuleMap(mods[n], mods[n - 1],
                       us[n - 1] @ d.action @ uinvs[n], check=False)
             for n, d in enumerate(C.diffs, 1)]
    return ChainComplex(ring, mods, diffs, check=False), us, uinvs


def twist_complex_with_iso(C: ChainComplex, rng: random.Random
                           ) -> tuple[ChainComplex, ChainMap]:
    """C conjugated by U_n in each degree, with the isomorphism U : C -> C'.

    See `_twist` for why both are right by construction.
    """
    twisted, us, _ = _twist(C, rng)
    iso = ChainMap(C, twisted,
                   [ModuleMap(M, twisted.mods[n], us[n], check=False)
                    for n, M in enumerate(C.mods)], check=False)
    return twisted, iso


def random_chain_map(X: ChainComplex, Y: ChainComplex, rng: random.Random,
                     *, bound: int = 2) -> ChainMap:
    """A uniformly scrambled element of the chain-maps module."""
    cms = ChainMapsSpace(X, Y)
    g = cms.module.generators
    coords = Matrix(X.ring, g, 1,
                    [[rng.randint(-bound, bound)] for _ in range(g)])
    return cms.chain_map(coords)


def _summand_into_twist(A: ChainComplex, Q: ChainComplex,
                        rng: random.Random) -> ChainMap:
    """A -> twist(A (+) Q): U_n [I; 0] in each degree, which is the first
    columns of U_n.  A chain map because U is one and A is a subcomplex
    of the block-diagonal sum."""
    twisted, us, _ = _twist(direct_sum_complex([A, Q]), rng)
    return ChainMap(A, twisted,
                    [ModuleMap(A.module(n), M,
                               U.columns(range(A.module(n).generators)),
                               check=False)
                     for n, (M, U) in enumerate(zip(twisted.mods, us))],
                    check=False)


def random_split_mono(ring: RingSpec, rng: random.Random, *, max_top: int = 2,
                      max_rank: int = 3) -> ChainMap:
    """A -> twist(A (+) Q): an h-cofibration by construction.

    The rank budget bounds the target, so it is split between the source
    and the complement.
    """
    half = max(1, max_rank // 2)
    A = random_complex(ring, rng, max_top=max_top, max_rank=half)
    Q = random_complex(ring, rng, max_top=max_top,
                       max_rank=max(1, max_rank - A.total_generators()))
    return _summand_into_twist(A, Q, rng)


def random_split_epi(ring: RingSpec, rng: random.Random, *, max_top: int = 2,
                     max_rank: int = 3) -> ChainMap:
    """twist(B (+) Q) -> B: an h-fibration by construction.

    Degree n is [I 0] U_n^-1, the first rows of U_n^-1; it is a chain map
    because U^-1 is one and B is a quotient complex of the sum.
    """
    half = max(1, max_rank // 2)
    B = random_complex(ring, rng, max_top=max_top, max_rank=half)
    Q = random_complex(ring, rng, max_top=max_top,
                       max_rank=max(1, max_rank - B.total_generators()))
    twisted, _, uinvs = _twist(direct_sum_complex([B, Q]), rng)
    return ChainMap(twisted, B,
                    [ModuleMap(M, B.module(n),
                               Uinv.submatrix(range(B.module(n).generators),
                                              range(Uinv.cols)),
                               check=False)
                     for n, (M, Uinv) in enumerate(zip(twisted.mods, uinvs))],
                    check=False)


def random_q_cofibration(ring: RingSpec, rng: random.Random, *,
                         acyclic: bool = False, max_top: int = 2,
                         max_rank: int = 3) -> ChainMap:
    """A -> twist(A (+) P) with P projective; acyclic uses disks only.

    The map is U_n [I; 0] in each degree, for the acyclic variant too:
    P is then a sum of disks, so the cokernel is contractible and the map
    is a quasi-isomorphism.  Not checked here: each suite that draws one
    decides that again, or that it is an h-equivalence.
    """
    A = random_complex(ring, rng, max_top=max_top,
                       max_rank=max(1, max_rank // 2),
                       allow_torsion=not acyclic)
    pieces: list[Piece] = []
    budget = rng.randint(1, max(1, max_rank - A.total_generators()))
    while budget > 0:
        n = rng.randint(1, max_top)
        if acyclic or rng.random() < 0.5:
            pieces.append((n, None, 1))
            budget -= 2
        else:
            pieces.append((rng.randint(0, max_top), None, None))
            budget -= 1
    P = _sum_of_pieces(ring, pieces)
    if acyclic:
        # a shear 1 + inj_A u proj_P would fix inj_A, since
        # proj_P inj_A = 0, so u is not used; it is still drawn, which
        # keeps the rng stream, and with it every later case, unchanged
        random_chain_map(P, A, rng, bound=1)
    return _summand_into_twist(A, P, rng)


def random_map_for_agreement(ring: RingSpec, rng: random.Random,
                             *, max_top: int = 2, max_rank: int = 2
                             ) -> ChainMap:
    """Mixed bag: known fibrations/cofibrations and arbitrary chain maps."""
    roll = rng.random()
    if roll < 0.3:
        return random_split_epi(ring, rng, max_top=max_top, max_rank=max_rank)
    if roll < 0.55:
        return random_split_mono(ring, rng, max_top=max_top, max_rank=max_rank)
    X = random_complex(ring, rng, max_top=max_top, max_rank=max_rank)
    Y = random_complex(ring, rng, max_top=max_top, max_rank=max_rank)
    return random_chain_map(X, Y, rng)
