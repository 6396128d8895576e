"""Homotopy lifting and extension properties, decided on universal objects.

A map p has the HLP iff the comparison (ev_0, p_*) from the path space E^I
to the mapping cocylinder admits a chain section; dually, i has the HEP iff
the canonical map from its mapping cylinder into X (x) I admits a chain
retraction.  Both are one lift solve each (`find_lift`), and both must agree
with the degreewise split-epi / split-mono classifier bits.  The path
objects are written in closed form (`chains/cones.py`): (E^I)_n is
E_n (+) E_n (+) E_{n+1}, the cocylinder window is E_n (+) B_n (+) B_{n+1},
and the comparison between them is the block diagonal id (+) p_n (+) p_{n+1}.
"""

from __future__ import annotations

from ..chains.build import interval
from ..chains.complexes import ChainMap
from ..chains.cones import (mapping_cocylinder, path_window, pushout_complexes,
                            pushout_induced_chain_map)
from ..chains.tensor import interval_cylinder, tensor_chain_maps
from ..chains.truncate import good_truncation, truncate_window_map
from ..exact.matrix import Matrix
from ..exact.modules import ModuleMap
from .lifting import chain_retraction, chain_section


def path_space_comparison(p: ChainMap) -> ChainMap:
    """(ev_0, p_*) : E^I -> tau_{>=0}(E x_B B^I).

    On the windows, the path (a, b, h) of E goes to the triple
    (a, p b, p h), that is a with the path p_*(a, b, h): the block
    diagonal id (+) p_n (+) p_{n+1}.  A chain map by construction: with
    s = (-1)^{n+1}, the third entries of d o comparison and comparison o d
    are d p h + s(p b - p a) and p(d h + s(b - a)), equal because p
    commutes with d; the first two entries are those of id and p.
    """
    E = p.source
    ring = E.ring
    trunc_EI = good_truncation(path_window(E))
    trunc_Np = mapping_cocylinder(p).truncation
    components = {
        n: ModuleMap(trunc_EI.window_module(n), trunc_Np.window_module(n),
                     Matrix.block_diagonal(ring, [
                         Matrix.identity(ring, E.module(n).generators),
                         p.component(n).action, p.component(n + 1).action]),
                     check=False)
        for n in range(E.top + 1)}
    return truncate_window_map(components, trunc_EI, trunc_Np, check=False)


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
