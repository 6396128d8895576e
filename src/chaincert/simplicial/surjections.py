"""Simplicial operators and shuffles as value tuples.

An order-preserving map alpha : [m] -> [n] is stored as its value tuple
(alpha(0), ..., alpha(m)).  A surjection [n] ->> [k] is determined by its
jump set, the k-subset of {1..n} where its value goes up; the summands of
a level of the denormalization are these jump sets, and
``levels.act`` reads every structure map off them.  A (p, q)-shuffle
pairs the positions of two blocks, for EZ.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache


def from_jumps(n: int, jumps: tuple[int, ...]) -> tuple[int, ...]:
    """The surjection out of [n] whose jump set is ``jumps``."""
    values = [0]
    for i in range(1, n + 1):
        values.append(values[-1] + (1 if i in jumps else 0))
    return tuple(values)


def coface(n: int, i: int) -> tuple[int, ...]:
    """delta_i : [n-1] -> [n], skipping the value i."""
    return tuple(v for v in range(n + 1) if v != i)


def codegeneracy(n: int, j: int) -> tuple[int, ...]:
    """sigma_j : [n+1] -> [n], repeating the value j."""
    return tuple(min(v, n) if v <= j else v - 1 for v in range(n + 2))


@dataclass(frozen=True)
class Shuffle:
    """A (p, q)-shuffle: positions of the two blocks in {0..p+q-1}."""

    p: int
    q: int
    mu: tuple[int, ...]   # ascending positions of the first block
    nu: tuple[int, ...]   # ascending positions of the second block
    sign: int


def _inversions(perm: tuple[int, ...]) -> int:
    return sum(1 for a in range(len(perm)) for b in range(a + 1, len(perm))
               if perm[a] > perm[b])


@lru_cache(maxsize=None)
def shuffles(p: int, q: int) -> tuple[Shuffle, ...]:
    out = []
    universe = range(p + q)
    for mu in itertools.combinations(universe, p):
        nu = tuple(x for x in universe if x not in mu)
        sign = -1 if _inversions(mu + nu) % 2 else 1
        out.append(Shuffle(p, q, mu, nu, sign))
    return tuple(out)
