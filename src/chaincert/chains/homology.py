"""Homology of complexes, and where it first fails to vanish.

Deciding exactness needs no presentation of the homology.  Write a
module C_n as R^{g_n} / im rel_n and d_n as a matrix on generators, and
let A_n = [d_{n+1} | rel_n], a g_n-row matrix.  Lift the cycles and
boundaries of C_n to R^{g_n} through the projection pi:

    pi^{-1}(Z_n) = {x : d_n x in im rel_{n-1}}
                 = the first g_n coordinates of ker A_{n-1},
    pi^{-1}(B_n) = im d_{n+1} + im rel_n = im A_n.

Both contain ker pi = im rel_n, so H_n = Z_n / B_n is
pi^{-1}(Z_n) / pi^{-1}(B_n), and C is exact at n iff every generator of
pi^{-1}(Z_n) is a column combination of A_n, i.e. iff A_n X = K_n has a
solution, with K_n the first block of `kernel_matrix(A_{n-1})` (the
identity at n = 0, as d_0 = 0).  Over Z and Z/m alike the projection of
generators of ker A_{n-1} generates its image, `kernel_matrix` generates
ker A_{n-1} (U and V invertible, ker D spanned by the scaled unit
vectors), and `solve` is exact (one congruence per diagonal entry), so
the test decides exactness.  A_n is the matrix solved against at n and
the one whose kernel gives K_{n+1}, so `first_inexact_degree` factors
one Smith form per degree, where a presentation of H_n
(`homology_data`) takes four or five.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CertificateError
from ..exact.modules import (ModuleMap, PresentedModule, cokernel, factor_through,
                             kernel)
from ..exact.matrix import Matrix
from ..exact.snf import kernel_matrix, solve
from .complexes import ChainComplex


@dataclass
class HomologyData:
    """Cycles, boundaries-into-cycles, and the quotient at one degree."""

    cycles: PresentedModule
    inclusion: ModuleMap          # cycles -> C_n
    boundary_factor: ModuleMap    # C_{n+1} -> cycles
    homology: PresentedModule     # coker(boundary_factor), generators = cycle gens


def homology_data(C: ChainComplex, n: int) -> HomologyData:
    cyc, incl = kernel(C.differential(n))
    w = factor_through(incl, C.differential(n + 1))
    if w is None:
        raise ValueError("boundaries do not land in cycles; complex invalid")
    H, _ = cokernel(w)
    return HomologyData(cyc, incl, w, H)


def first_inexact_degree(C: ChainComplex) -> int | None:
    """The lowest degree n with H_n(C) nonzero, or None when C is exact.

    One sweep up the degrees, one Smith form of A_n = [d_{n+1} | rel_n]
    each, by the argument in the module docstring.
    """
    cycles = Matrix.identity(C.ring, C.module(0).generators)
    for n in range(C.top + 1):
        A = C.differential(n + 1).action.hstack(C.module(n).relations)
        if solve(A, cycles) is None:
            return n
        if n < C.top:
            K = kernel_matrix(A)
            cycles = K.submatrix(range(C.module(n + 1).generators),
                                 range(K.cols))
    return None


def first_homology(C: ChainComplex) -> tuple[int, PresentedModule] | None:
    """The lowest degree n with H_n(C) nonzero and that H_n, or None.

    The degree comes from `first_inexact_degree`; H_n is presented there
    alone (CertificateError if that presentation is zero).
    """
    n = first_inexact_degree(C)
    if n is None:
        return None
    H = homology_data(C, n).homology
    if H.is_zero_module():
        raise CertificateError(f"degree {n} is not exact, but its homology "
                               "presents as zero")
    return n, H
