"""Homotopy lifting and extension properties, decided on universal objects.

A map p has the HLP iff the comparison (ev_0, p_*) from the path space E^I
to the mapping cocylinder admits a chain section; dually, i has the HEP iff
the canonical map from its mapping cylinder into X (x) I admits a chain
retraction.  Both are one lift (`find_lift`), solved in one sweep up the
degrees, and both must agree with the degreewise split-epi / split-mono
classifier bits.  Both universal objects are written in closed form
(`chains/cones.py`), so each comparison
is a block diagonal: id (+) p_n (+) p_{n+1} from (E^I)_n = E_n (+) E_n (+)
E_{n+1} to (Np)_n = E_n (+) B_n (+) B_{n+1}, id (+) p_1 in degree 0, and
i_n (+) i_{n-1} (+) id from (Mi)_n = A_n (+) A_{n-1} (+) X_n to
(X (x) I)_n = X_n (+) X_{n-1} (+) X_n.
"""

from __future__ import annotations

from typing import Callable

from ..chains.complexes import ChainComplex, ChainMap
from ..chains.cones import cocylinder_complex, cylinder_complex
from ..exact.matrix import Matrix
from ..exact.modules import ModuleMap
from .lifting import chain_retraction, chain_section


def _block_diagonal_map(source: ChainComplex, target: ChainComplex,
                        blocks: Callable[[int], list[Matrix]]) -> ChainMap:
    ring = source.ring
    return ChainMap(source, target, [
        ModuleMap(source.module(n), target.module(n),
                  Matrix.block_diagonal(ring, blocks(n)), check=False)
        for n in range(max(source.top, target.top) + 1)], check=False)


def path_space_comparison(p: ChainMap) -> ChainMap:
    """(ev_0, p_*) : E^I -> Np.

    The path (a, b, h) of E goes to (a, p b, p h), that is a with the path
    p_*(a, b, h), and the degree-0 cycle (a, h) to (a, p h).  A chain map
    by construction: on both sides of the square each block of d on E^I
    (d or +-id) turns into the matching block on Np (d, +-id or +-p)
    times p, as p d on one side and d p on the other, and p is a chain map.
    """
    E = p.source
    ring = E.ring

    def blocks(n: int) -> list[Matrix]:
        outer = [] if n == 0 else [p.component(n).action]
        return ([Matrix.identity(ring, E.module(n).generators)] + outer
                + [p.component(n + 1).action])

    return _block_diagonal_map(cocylinder_complex(ChainMap.identity(E)),
                               cocylinder_complex(p), blocks)


def hlp_check(p: ChainMap) -> bool:
    """True iff (ev_0, p_*) : E^I -> Np admits a chain section."""
    comparison = path_space_comparison(p)
    return chain_section(comparison) is not None


def cylinder_comparison(i: ChainMap) -> ChainMap:
    """The canonical map Mi -> X (x) I, gluing at the e1 end.

    (a, h, x) goes to (i a, i h, x).  A chain map by construction: the
    cylinder differentials d(a, h, y) = (d a + s h, d h, d y - s f h) for
    f = i and f = id_X agree after applying i to the first two entries,
    because i commutes with d.
    """
    A, X = i.source, i.target
    ring = A.ring
    return _block_diagonal_map(
        cylinder_complex(i), cylinder_complex(ChainMap.identity(X)),
        lambda n: [i.component(n).action, i.component(n - 1).action,
                   Matrix.identity(ring, X.module(n).generators)])


def hep_check(i: ChainMap) -> bool:
    """True iff the mapping cylinder is a chain retract of X (x) I."""
    comparison = cylinder_comparison(i)
    return chain_retraction(comparison) is not None
