"""Seeded generators for the certification corpora.

Maps are assembled from canonical pieces (disk and sphere inclusions,
direct sums, cyclic quotients with small relation entries) and then
conjugated by random unimodular changes of basis, so ground-truth class
membership is known by construction wherever a suite needs it.
"""

from __future__ import annotations

import random

from ..chains.build import (concentrated, direct_sum_complex,
                            direct_sum_complexes, disk, sphere)
from ..chains.complexes import ChainComplex, ChainMap
from ..chains.homcx import ChainMapsSpace
from ..chains.homotopy import quasi_iso
from ..errors import CertificateError
from ..exact.matrix import Matrix
from ..exact.modules import ModuleMap, PresentedModule
from ..exact.rings import RingSpec


def unimodular(ring: RingSpec, n: int, rng: random.Random,
               ops: int = 3) -> tuple[Matrix, Matrix]:
    """A random change of basis together with its exact inverse."""
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
            # inverse composes the inverse operations in reverse order
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
                   max_rank: int = 3, allow_torsion: bool = True,
                   twist: bool = True) -> ChainComplex:
    """Direct sum of canonical pieces, optionally basis-twisted."""
    pieces: list[ChainComplex] = []
    budget = rng.randint(1, max_rank)
    while budget > 0:
        kind = rng.randrange(4 if allow_torsion else 2)
        n = rng.randint(0, max_top)
        if kind == 0:
            pieces.append(sphere(ring, n))
            budget -= 1
        elif kind == 1 and n >= 1 and budget >= 2:
            pieces.append(disk(ring, n))
            budget -= 2
        elif kind == 2 and allow_torsion:
            d = rng.choice((2, 3, 4))
            pieces.append(concentrated(PresentedModule.cyclic(ring, d), n))
            budget -= 1
        elif kind == 3 and allow_torsion and n >= 1 and budget >= 2:
            # R --k--> R in degrees n, n-1
            free = PresentedModule.free(ring, 1)
            k = rng.choice((2, 3))
            mods = [PresentedModule.zero(ring)] * (n - 1) + [free, free]
            diffs = [ModuleMap.zero_map(mods[m + 1], mods[m])
                     for m in range(n - 1)]
            diffs.append(ModuleMap(free, free, Matrix(ring, 1, 1, [[k]]),
                                   check=False))
            pieces.append(ChainComplex(ring, mods, diffs, check=False))
            budget -= 2
        else:
            pieces.append(sphere(ring, n))
            budget -= 1
    total = direct_sum_complex(pieces)
    return twist_complex(total, rng) if twist else total


def twist_complex(C: ChainComplex, rng: random.Random
                  ) -> ChainComplex:
    """Conjugate by unimodular changes of basis in every degree."""
    return twist_complex_with_iso(C, rng)[0]


def twist_complex_with_iso(C: ChainComplex, rng: random.Random
                           ) -> tuple[ChainComplex, ChainMap]:
    """C conjugated by U_n in each degree, with the isomorphism U : C -> C'.

    Both are right by construction, since U_n^-1 U_n = I exactly:
    C'_n is presented by U_n P_n, its differential U_{n-1} d_n U_n^-1
    carries U_n P_n into U_{n-1} P_{n-1}, d' o d' = U d d U^-1 vanishes
    because d d does, and d' U_n = U_{n-1} d_n holds on the nose.
    """
    ring = C.ring
    us, uinvs, mods = [], [], []
    for n in range(C.top + 1):
        g = C.module(n).generators
        U, Uinv = unimodular(ring, g, rng)
        us.append(U)
        uinvs.append(Uinv)
        mods.append(PresentedModule(ring, g, U @ C.module(n).relations))
    diffs = []
    for n in range(1, C.top + 1):
        action = us[n - 1] @ C.differential(n).action @ uinvs[n]
        diffs.append(ModuleMap(mods[n], mods[n - 1], action, check=False))
    twisted = ChainComplex(ring, mods, diffs, check=False)
    iso = ChainMap(C, twisted,
                   [ModuleMap(C.module(n), mods[n], us[n], check=False)
                    for n in range(C.top + 1)], check=False)
    return twisted, iso


def random_chain_map(X: ChainComplex, Y: ChainComplex, rng: random.Random,
                     *, bound: int = 2) -> ChainMap:
    """A uniformly scrambled element of the chain-maps module."""
    cms = ChainMapsSpace(X, Y)
    g = cms.module.generators
    coords = Matrix(X.ring, g, 1,
                    [[rng.randint(-bound, bound)] for _ in range(g)])
    return cms.chain_map(coords)


def random_split_mono(ring: RingSpec, rng: random.Random, *, max_top: int = 2,
                      max_rank: int = 3, allow_torsion: bool = True
                      ) -> ChainMap:
    """A -> twist(A (+) Q): an h-cofibration by construction.

    The rank budget bounds the target, so it is split between the source
    and the complement.
    """
    half = max(1, max_rank // 2)
    A = random_complex(ring, rng, max_top=max_top, max_rank=half,
                       allow_torsion=allow_torsion)
    Q = random_complex(ring, rng, max_top=max_top,
                       max_rank=max(1, max_rank - A.total_generators()),
                       allow_torsion=allow_torsion)
    total, injs, _ = direct_sum_complexes([A, Q])
    twisted, iso = twist_complex_with_iso(total, rng)
    return iso.compose(injs[0])


def random_split_epi(ring: RingSpec, rng: random.Random, *, max_top: int = 2,
                     max_rank: int = 3) -> ChainMap:
    """twist(B (+) Q) -> B: an h-fibration by construction."""
    half = max(1, max_rank // 2)
    B = random_complex(ring, rng, max_top=max_top, max_rank=half)
    Q = random_complex(ring, rng, max_top=max_top,
                       max_rank=max(1, max_rank - B.total_generators()))
    total, _, projs = direct_sum_complexes([B, Q])
    twisted, iso = twist_complex_with_iso(total, rng)
    return projs[0].compose(_chain_iso_inverse(iso))


def _chain_iso_inverse(iso: ChainMap) -> ChainMap:
    """Inverse of a degreewise unimodular chain isomorphism."""
    from ..exact.snf import solve

    comps = []
    for n in range(max(iso.source.top, iso.target.top) + 1):
        U = iso.component(n).action
        inv = solve(U, Matrix.identity(U.ring, U.rows))
        if inv is None:
            raise CertificateError(f"degree {n} of the chain isomorphism "
                                   "is not invertible")
        comps.append(ModuleMap(iso.target.module(n), iso.source.module(n), inv,
                               check=False))
    return ChainMap(iso.target, iso.source, comps, check=False)


def random_q_cofibration(ring: RingSpec, rng: random.Random, *,
                         acyclic: bool = False, max_top: int = 2,
                         max_rank: int = 3) -> ChainMap:
    """A -> twist(A (+) P) with P projective; acyclic uses disks only.

    The acyclic variant composes with a shear through a random chain map
    P -> A, which preserves both the monomorphism and the cokernel.
    """
    A = random_complex(ring, rng, max_top=max_top,
                       max_rank=max(1, max_rank // 2),
                       allow_torsion=not acyclic)
    pieces = []
    budget = rng.randint(1, max(1, max_rank - A.total_generators()))
    while budget > 0:
        n = rng.randint(1, max_top)
        if acyclic or rng.random() < 0.5:
            pieces.append(disk(ring, n))
            budget -= 2
        else:
            pieces.append(sphere(ring, rng.randint(0, max_top)))
            budget -= 1
    P = direct_sum_complex(pieces)
    total, injs, projs = direct_sum_complexes([A, P])
    j = injs[0]
    if acyclic:
        u = random_chain_map(P, A, rng, bound=1)
        shear = _sum_shear(total, injs, projs, u)
        j = shear.compose(j)
    twisted, iso = twist_complex_with_iso(total, rng)
    out = iso.compose(j)
    if acyclic:
        if not quasi_iso(out):
            raise CertificateError("acyclic q-cofibration is not a "
                                   "quasi-isomorphism")
    return out


def _sum_shear(total: ChainComplex, injs, projs, u: ChainMap) -> ChainMap:
    """The automorphism [[id, u], [0, id]] of A (+) P."""
    idm = ChainMap.identity(total)
    smear = injs[0].compose(u).compose(projs[1])
    return idm + smear


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
