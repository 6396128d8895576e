"""Homotopy lifting and extension properties, decided on universal objects.

A map p has the HLP iff the comparison (ev_0, p_*) from the path space E^I
to the mapping cocylinder admits a chain section; dually, i has the HEP iff
the canonical map from its mapping cylinder into X (x) I admits a chain
retraction.  Both are one lift solve each (`find_lift`), and both must agree
with the degreewise split-epi / split-mono classifier bits.
"""

from __future__ import annotations

from ..chains.build import interval
from ..chains.complexes import ChainMap
from ..chains.cones import (_evaluation_window_matrix, mapping_cocylinder,
                            pushout_complexes, pushout_induced_chain_map)
from ..chains.homcx import HomWindow
from ..chains.tensor import interval_cylinder, tensor_chain_maps, TensorLayout
from ..chains.truncate import good_truncation, truncate_window_map
from ..exact.matrix import Matrix
from ..exact.modules import ModuleMap, factor_through
from .lifting import chain_retraction, chain_section


def path_space_comparison(p: ChainMap) -> ChainMap:
    """(ev_0, p_*) : E^I -> tau_{>=0}(E x_B B^I).

    A chain map by construction: evaluation at a vertex and
    postcomposition with p commute with the hom differentials, and the
    pullback inclusion they factor through is a monomorphism.
    """
    E, B = p.source, p.target
    ring = E.ring
    I = interval(ring)
    hwE = HomWindow(I, E)
    trunc_EI = good_truncation(hwE.window())
    cocyl = mapping_cocylinder(p)
    hwB = cocyl.hom_window
    e0 = Matrix(ring, 2, 1, [[1], [0]])

    top = max(hwE.top, cocyl.complex.top, 0)
    components: dict[int, ModuleMap] = {}
    for n in range(0, top + 1):
        ev0 = _evaluation_window_matrix(hwE, n, e0)
        post_rows = hwB.module(n).generators
        post_cols = hwE.module(n).generators
        rows = [[0] * post_cols for _ in range(post_rows)]
        offsB = dict(hwB.offsets(n))
        for i, offE in hwE.offsets(n):
            if i not in offsB:
                continue
            spE = hwE.space(i, n)
            spB = hwB.space(i, n)
            blk = spE.postcompose(p.component(i + n), spB).action
            offB = offsB[i]
            for a in range(blk.rows):
                for b in range(blk.cols):
                    rows[offB + a][offE + b] = blk[a, b]
        post = Matrix(ring, post_rows, post_cols, rows)
        ambient = ev0.vstack(post)
        u = ModuleMap(hwE.module(n), cocyl.window_inclusions[n].target, ambient,
                      check=False)
        w = factor_through(cocyl.window_inclusions[n], u)
        if w is None:
            raise ValueError("(ev_0, p_*) misses the pullback; invalid data")
        components[n] = w
    return truncate_window_map(components, trunc_EI, cocyl.truncation,
                               check=False)


def hlp_check(p: ChainMap) -> bool:
    """True iff (ev_0, p_*) : E^I -> tau_{>=0}(Np) admits a chain section."""
    comparison = path_space_comparison(p)
    return chain_section(comparison) is not None


def cylinder_comparison(i: ChainMap) -> ChainMap:
    """The canonical map Mi -> X (x) I, gluing at the e1 end."""
    A, X = i.source, i.target
    ring = A.ring
    I = interval(ring)
    layA, a_i0, a_i1, a_r = interval_cylinder(A, I)
    layX, x_i0, x_i1, x_r = interval_cylinder(X, I)
    Mi, inj_x, inj_cyl = pushout_complexes(i, a_i1)
    i_tensor = tensor_chain_maps(i, ChainMap.identity(I), layA, layX)
    # x_i1 o i = (i (x) id_I) o a_i1 as matrices: both put i(a) at the e1 end
    return pushout_induced_chain_map(Mi, x_i1, i_tensor, check=False)


def hep_check(i: ChainMap) -> bool:
    """True iff the mapping cylinder is a chain retract of X (x) I."""
    comparison = cylinder_comparison(i)
    return chain_retraction(comparison) is not None
