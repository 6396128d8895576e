"""Order-preserving surjection combinatorics for the denormalization.

A surjection [n] ->> [k] is stored as its value tuple (always starting
at 0, increments 0 or 1); it is determined by its jump set, the k-subset
of {1..n} of positions where the value increases.  Levels of the
denormalization are indexed by these surjections in a canonical order:
k ascending, then jump sets lexicographic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache


def from_jumps(n: int, jumps: tuple[int, ...]) -> tuple[int, ...]:
    values = [0]
    for i in range(1, n + 1):
        values.append(values[-1] + (1 if i in jumps else 0))
    return tuple(values)


@lru_cache(maxsize=None)
def surjections(n: int) -> tuple[tuple[int, ...], ...]:
    """All order-preserving surjections out of [n], canonically ordered."""
    out = []
    for k in range(n + 1):
        for jumps in itertools.combinations(range(1, n + 1), k):
            out.append(from_jumps(n, jumps))
    return tuple(out)


def degree_of(eta: tuple[int, ...]) -> int:
    return eta[-1]


def coface(n: int, i: int) -> tuple[int, ...]:
    """delta_i : [n-1] -> [n], skipping the value i."""
    return tuple(v for v in range(n + 1) if v != i)


def codegeneracy(n: int, j: int) -> tuple[int, ...]:
    """sigma_j : [n+1] -> [n], repeating the value j."""
    return tuple(min(v, n) if v <= j else v - 1 for v in range(n + 2))


def compose(eta: tuple[int, ...], alpha: tuple[int, ...]) -> tuple[int, ...]:
    """eta o alpha as value tuples."""
    return tuple(eta[a] for a in alpha)


def epi_mono_factor(tau: tuple[int, ...]
                    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """tau = iota o eta' with eta' surjective and iota injective.

    Returns (eta' value tuple, image of iota as a sorted tuple).
    """
    image = sorted(set(tau))
    index = {v: i for i, v in enumerate(image)}
    return tuple(index[v] for v in tau), tuple(image)


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
